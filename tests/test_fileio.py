import copy
import dataclasses
import gc
import hashlib
import json
import random
from fractions import Fraction

import pytest

from barl1 import groups, l1opt
from barl1.barcomplex import Chain, boundary, l1_norm
from barl1.cli import run
from barl1.fileio import (FileFormatError, chain_from_dict,
                          chain_from_records, chain_to_dict,
                          chain_to_records, cochain_from_dict, decode_element,
                          dump_json, encode_element, fill_cert_from_dict,
                          fill_cert_to_dict, format_fraction,
                          group_to_spec, kappa_to_dict, load_chain,
                          load_group, load_json, mitosis_from_dict,
                          mitosis_to_dict, parse_fraction,
                          pipeline_cert_from_dict, pipeline_cert_to_dict,
                          tower_to_dict, verify_certificate_dict)
from barl1.groups import (DirectProduct, FreeGroup, FreeProduct,
                          GroupAxiomError, GroupOracle, PermutationGroup,
                          cyclic_group, symmetric_group_perm)
from barl1.l1opt import FillCertificate, fill_min, ubc_kappa_exact
from barl1.mitosis import (PipelineConfig, mitosis_of_finite_abelian,
                           primitive_pipeline, tower, verify_mitosis)
from barl1.groups import identity_hom
from helpers import random_chain, record_calls

G2 = cyclic_group(2)
G3 = cyclic_group(3)


def test_fraction_codec():
    assert parse_fraction(3) == 3
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("-5") == -5
    assert format_fraction(Fraction(3, 4)) == "3/4"
    assert format_fraction(Fraction(10, 5)) == "2"
    for bad in (True, 1.5, "a/b", "1/0", None, "1e10000000", "1.5",
                " 1/2"):
        with pytest.raises(FileFormatError):
            parse_fraction(bad)
    for x in (Fraction(-7, 3), Fraction(0), Fraction(22)):
        assert parse_fraction(format_fraction(x)) == x


def test_element_codec_round_trips():
    S3 = symmetric_group_perm(3)
    F2 = FreeGroup(2)
    P = DirectProduct((G2, G3))
    FP = FreeProduct((G2, G3))
    M = mitosis_of_finite_abelian(G2).ambient
    rng = random.Random(3)
    for G in (G2, S3, F2, P, FP, M):
        for _ in range(20):
            a = G.sample(rng)
            assert decode_element(G, encode_element(G, a)) == a


def test_element_codec_formats():
    assert encode_element(symmetric_group_perm(3), (1, 2, 0)) == "1,2,0"
    F = FreeGroup(2)
    assert encode_element(F, (1, 1, -2)) == "x1*x1*x2^-1"
    assert encode_element(F, ()) == "e"
    assert decode_element(F, "x1^2*x2^-1") == (1, 1, -2)
    with pytest.raises(GroupAxiomError):
        decode_element(F, "x2*x2^-1")  # one spelling: reduced words only


def test_element_codec_rejects_garbage():
    with pytest.raises(FileFormatError, match="unknown element"):
        decode_element(G2, "t^2")
    with pytest.raises(FileFormatError):
        decode_element(FreeGroup(1), "y3")
    with pytest.raises(FileFormatError):
        decode_element(FreeGroup(1), "x2")  # outside rank
    with pytest.raises(ValueError):
        decode_element(symmetric_group_perm(3), "0,1")  # wrong arity


def test_chain_record_round_trip():
    rng = random.Random(7)
    S3 = symmetric_group_perm(3)
    for G in (G2, G3, S3, DirectProduct((G2, G3))):
        for _ in range(10):
            k = rng.randrange(0, 4)
            c = random_chain(G, k, rng)
            back = chain_from_records(G, k, chain_to_records(c))
            assert back == c
            assert chain_from_dict(G, chain_to_dict(c)) == c


def test_chain_record_validation():
    with pytest.raises(FileFormatError, match="length"):
        chain_from_records(G2, 2, [{"coeff": "1", "tuple": ["1"]}])
    with pytest.raises(FileFormatError, match="record"):
        chain_from_records(G2, 1, ["nope"])
    with pytest.raises(FileFormatError, match="degree"):
        chain_from_dict(G2, {"terms": []})


def test_cochain_from_dict():
    d = {"degree": 1, "terms": [{"tuple": ["1"], "coeff": "3/2"}]}
    f = cochain_from_dict(G2, d)
    assert f.value((1,)) == Fraction(3, 2)
    assert f.value((0,)) == 0


def test_cochain_sums_a_repeated_tuple_as_the_chain_reader_does():
    terms = [{"tuple": ["1"], "coeff": "1"}, {"tuple": ["1"], "coeff": "2"}]
    assert chain_from_records(G2, 1, terms).coeffs == {(1,): 3}
    assert cochain_from_dict(G2, {"degree": 1, "terms": terms}).value((1,)) == 3


def test_cochain_record_without_coeff_is_a_schema_error():
    with pytest.raises(FileFormatError, match="record"):
        cochain_from_dict(G2, {"degree": 1, "terms": [{"tuple": ["1"]}]})


def test_records_check_each_decoded_element_once(monkeypatch, tmp_path):
    M = mitosis_of_finite_abelian(G2).ambient
    e = encode_element(M, M.identity())
    terms = [{"coeff": "1", "tuple": [e, e]}]
    calls = record_calls(monkeypatch, GroupOracle, "check_member")
    chain_from_records(M, 2, terms)
    assert calls == [M, M]
    del calls[:]
    cochain_from_dict(M, {"degree": 2, "terms": terms})
    assert calls == [M, M]
    # a non-member is still refused by that one check
    H = PermutationGroup(3, [(1, 0, 2)])
    bad = {"degree": 1, "terms": [{"coeff": "1", "tuple": ["0,2,1"]}]}
    with pytest.raises(GroupAxiomError):
        chain_from_dict(H, bad)
    with pytest.raises(GroupAxiomError):
        cochain_from_dict(H, bad)
    group, chain = str(tmp_path / "g.json"), str(tmp_path / "c.json")
    dump_json(group_to_spec(H), group)
    dump_json(bad, chain)
    assert run(["boundary", "--group", group, "--chain", chain]) == 1


def test_group_file_round_trip(tmp_path):
    specs = [G2, symmetric_group_perm(3), FreeGroup(2),
             DirectProduct((G2, G3)), FreeProduct((G2, G2)),
             mitosis_of_finite_abelian(G2).ambient]
    for k, G in enumerate(specs):
        p = tmp_path / ("g%d.json" % k)
        dump_json(group_to_spec(G), p)
        assert load_group(p) == G


def test_load_group_errors(tmp_path):
    p = tmp_path / "bad.json"
    dump_json({"type": "bogus"}, p)
    with pytest.raises(FileFormatError, match="unknown group type"):
        load_group(p)
    # broken Cayley table: repeated entry in a row
    q = tmp_path / "nonassoc.json"
    dump_json({"type": "finite", "elements": ["e", "a"],
               "table": [[0, 0], [1, 0]]}, q)
    with pytest.raises(GroupAxiomError):
        load_group(q)
    # structurally broken record: wrapped as a file format error
    s = tmp_path / "broken.json"
    dump_json({"type": "semidirect"}, s)
    with pytest.raises(FileFormatError, match="bad group record"):
        load_group(s)
    r = tmp_path / "nojson.json"
    r.write_text("{", encoding="utf-8")
    with pytest.raises(FileFormatError, match="JSON"):
        load_json(r)
    with pytest.raises(FileFormatError, match="read"):
        load_json(tmp_path / "missing.json")


def test_dump_json_deterministic(tmp_path):
    obj = {"b": [1, 2], "a": {"y": "2", "x": "1/2"}}
    s1 = dump_json(obj)
    s2 = dump_json({"a": {"x": "1/2", "y": "2"}, "b": [1, 2]})
    assert s1 == s2
    assert s1.endswith("\n")
    p = tmp_path / "o.json"
    dump_json(obj, p)
    assert load_json(p) == obj


class _Dict(dict):
    pass


class _List(list):
    pass


# pieces of strings json escapes: quotes, backslashes, control
# characters, U+2028, non-ASCII and non-BMP text
_TEXT = ['', 'a', '"', '\\', '\x00', '\x1f', '\t\n\r', '\x7f', '/', '\u2028',
         '\u00e9', '\u4e2d', '\U0001f600', '\U00010348', '1/2']
# "\u00e9" sorts after "z" raw but before it escaped, 'a"' before "a#"
# raw but after it escaped
_KEYS = ['z', 'a', 'A', 'a"', 'a#', '\u00e9', '\\', '', '\x01', 'kind']
_SCALARS = [True, False, None, 0, -1, 2 ** 70 - 1, -(2 ** 70), -0.0, 0.5,
            1e300, float("inf"), float("-inf"), float("nan")]


def _json_value(rng, depth):
    kind = rng.randrange(10 if depth else 3)
    if kind == 0:
        return "".join(rng.choice(_TEXT) for _ in range(rng.randrange(4)))
    if kind == 1:
        return rng.choice(_SCALARS)
    if kind == 2:
        return rng.choice((-1, 1)) * rng.getrandbits(rng.choice((3, 70)))
    items = [_json_value(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind <= 5:
        return rng.choice((list, tuple, _List))(items)
    keys = rng.sample(_KEYS, len(items))
    return rng.choice((dict, _Dict))(zip(keys, items))


def test_dump_json_gives_the_bytes_of_json_dumps():
    rng = random.Random(1)
    values = [[], {}, (), _List(), _Dict(), [[{}]], {"a": [()]},
              _Dict({"b": _List([1, "x"])}), "\u2028\U0001f600"]
    values += [_json_value(rng, 4) for _ in range(600)]
    for v in values:
        assert dump_json(v) == json.dumps(v, indent=2, sort_keys=True) + "\n"


def test_dump_json_builds_no_reference_cycle():
    # a writer that leaves cycles behind on every call raises the peak
    # memory of a long batch until the collector runs
    record = kappa_to_dict(ubc_kappa_exact(G3, 2), G3)
    gc.collect()
    gc.disable()
    try:
        dump_json(record)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("key", [1, 1.5, True, None, (1,)])
def test_dump_json_keys_must_be_strings(key):
    # json.dumps would write the first four as strings; no record holds one
    with pytest.raises(TypeError, match="keys must be str"):
        dump_json({"a": {key: "1"}})
    with pytest.raises(TypeError):
        dump_json({"a": object()})


def test_fill_certificate_round_trip_and_tamper():
    z = Chain(G2, 1, {(1,): Fraction(2), (0,): Fraction(-1)})
    cert = fill_min(z)
    d = fill_cert_to_dict(cert)
    assert d["kind"] == "fill"
    assert verify_certificate_dict(d) == []
    back = fill_cert_from_dict(d)
    assert back.c == cert.c and back.ratio == cert.ratio

    forged = copy.deepcopy(d)
    forged["z"][0]["coeff"] = "3"
    assert any("boundary mismatch" in f for f in verify_certificate_dict(forged))
    forged = copy.deepcopy(d)
    forged["ratio"] = format_fraction(cert.ratio / 2)
    assert any("ratio" in f for f in verify_certificate_dict(forged))


def test_kappa_certificate_verification():
    res = ubc_kappa_exact(G2, 1)
    d = kappa_to_dict(res, G2)
    assert verify_certificate_dict(d) == []

    forged = copy.deepcopy(d)
    forged["lower"] = "2"
    forged["kappa"] = "2"
    assert "stated lower bound is not the best stored ratio" in \
        verify_certificate_dict(forged)
    forged = copy.deepcopy(d)
    forged["method"] = "sampled"
    assert "exact kappa stated for a non-exact method" in \
        verify_certificate_dict(forged)


def test_kappa_record_builds_its_group_once(monkeypatch):
    # every vertex that records the record's group is read over the one
    # group the record's own field builds; a vertex over another group
    # is read over its own, and fails
    S3 = symmetric_group_perm(3)
    d = kappa_to_dict(ubc_kappa_exact(S3, 1), S3)
    assert len(d["vertices"]) == 6
    chains = record_calls(monkeypatch, groups, "_schreier_sims")
    assert verify_certificate_dict(d) == []
    assert len(chains) == 1
    forged = copy.deepcopy(d)
    forged["vertices"][0] = fill_cert_to_dict(
        fill_min(boundary(Chain.single(G3, (1, 1)))))
    assert "1 vertices over another group or degree" in \
        verify_certificate_dict(forged)


def test_kappa_rejects_dropped_vertices():
    # Z/3 in degree 2 peaks at 1/2 on 13 of its 21 circuits; without
    # them the other 8 would certify kappa = 3/8
    d = kappa_to_dict(ubc_kappa_exact(G3, 2), G3)
    forged = copy.deepcopy(d)
    forged["vertices"] = [v for v in d["vertices"] if v["ratio"] != "1/2"]
    assert len(forged["vertices"]) == 8
    forged["kappa"] = forged["lower"] = forged["upper"] = "3/8"
    assert verify_certificate_dict(forged) == [
        "13 circuits of im d missing from the vertices"]
    forged = copy.deepcopy(d)
    forged["vertices"].append(forged["vertices"][0])
    assert verify_certificate_dict(forged) == [
        "1 vertices are not distinct circuits of im d"]


def test_kappa_cone_bound_record_verifies():
    d = kappa_to_dict(ubc_kappa_exact(G3, 3), G3)
    assert (d["method"], d["kappa"], d["lower"], d["upper"]) == \
        ("cone-bound", "1", "1", "1")
    assert verify_certificate_dict(d) == []
    forged = copy.deepcopy(d)
    forged["method"] = "sampled"
    assert verify_certificate_dict(forged) == [
        "exact kappa stated for a non-exact method"]


def test_kappa_bracket_upper_is_the_cone_bound(monkeypatch):
    monkeypatch.setattr(l1opt, "ENUM_BUDGET", 0)
    d = kappa_to_dict(ubc_kappa_exact(G2, 2), G2)
    assert (d["method"], d["kappa"], d["lower"], d["upper"]) == \
        ("sampled", None, "1/2", "1")
    assert verify_certificate_dict(d) == []
    for upper in (d["lower"], "2", None):
        forged = dict(d, upper=upper)
        assert verify_certificate_dict(forged) == [
            "stated upper bound is not the one its method proves"]
    forged = dict(d, kappa="1/2", upper="1/2")
    assert "exact kappa stated for a non-exact method" in \
        verify_certificate_dict(forged)


def test_kappa_rejects_a_vertex_ratio_above_the_cone_bound():
    # adding a boundary to a vertex fill keeps dc = z but makes it larger
    # than minimal; restating kappa to match is caught by the cone bound
    d = kappa_to_dict(ubc_kappa_exact(G3, 2), G3)
    vertex = fill_cert_from_dict(d["vertices"][0])
    c = vertex.c + boundary(Chain.single(G3, (1, 1, 1, 1)))
    forged = copy.deepcopy(d)
    forged["vertices"][0]["c"] = chain_to_records(c)
    forged["vertices"][0]["ratio"] = format_fraction(l1_norm(c) / l1_norm(vertex.z))
    forged["kappa"] = forged["lower"] = forged["upper"] = "11/2"
    assert forged["vertices"][0]["ratio"] == "11/2"
    assert verify_certificate_dict(forged) == [
        "vertex 0: ratio above the cone bound 1"]


def test_kappa_rejects_empty_vertex_list():
    forged = kappa_to_dict(ubc_kappa_exact(G3, 2), G3)
    forged["vertices"] = []
    forged["kappa"] = forged["lower"] = forged["upper"] = "0"
    assert verify_certificate_dict(forged) == [
        "21 circuits of im d missing from the vertices"]


KAPPA_CASES = [(G2, 1), (G2, 2), (G2, 3), (G3, 1), (G3, 2),
               (cyclic_group(4), 1), (symmetric_group_perm(3), 1)]


@pytest.mark.parametrize("G, q", KAPPA_CASES,
                         ids=["Z2_q1", "Z2_q2", "Z2_q3", "Z3_q1", "Z3_q2",
                              "Z4_q1", "S3_q1"])
def test_kappa_verify_is_the_record_check(G, q):
    # UbcConstant.verify is the whole kappa rule: a tampered result
    # fails it with the list its record gets from verify_certificate_dict
    res = ubc_kappa_exact(G, q)
    assert res.verify(G) == [] == verify_certificate_dict(kappa_to_dict(res, G))
    for change in ({"lower": res.lower + 1}, {"upper": None},
                   {"upper": Fraction(2)}, {"kappa": None},
                   {"kappa": res.kappa / 2}, {"method": "sampled"}):
        forged = dataclasses.replace(res, **change)
        failures = forged.verify(G)
        assert failures != []
        assert failures == verify_certificate_dict(kappa_to_dict(forged, G))


def test_zero_filling_states_ratio_zero():
    # z = 0 has the filling 0 of ratio 0; a fill and a pipeline record
    # stating ratio 1 fail the one filling check alike
    fill = dict(fill_cert_to_dict(fill_min(Chain.zero(G2, 1))), ratio="1")
    h = identity_hom(G2)
    cfg = PipelineConfig(h, h, h, mitosis_of_finite_abelian(G2))
    pipe = pipeline_cert_to_dict(primitive_pipeline(Chain.zero(G2, 1), cfg))
    assert pipe["ratio"] == "0" and verify_certificate_dict(pipe) == []
    pipe["ratio"] = "1"
    assert verify_certificate_dict(pipe) == verify_certificate_dict(fill) == [
        "ratio of the zero filling must be 0"]


def test_pipeline_certificate_round_trip_and_tamper():
    h = identity_hom(G2)
    cfg = PipelineConfig(h, h, h, mitosis_of_finite_abelian(G2))
    cert = primitive_pipeline(Chain.single(G2, (1,)), cfg)
    d = pipeline_cert_to_dict(cert)
    assert verify_certificate_dict(d) == []
    back = pipeline_cert_from_dict(d)
    assert back.primitive == cert.primitive
    assert back.ratio == cert.ratio and back.bound == cert.bound

    forged = copy.deepcopy(d)
    understated = cert.ratio - Fraction(1, 1_000_000)
    forged["ratio"] = format_fraction(understated)
    assert "ratio mismatch" in verify_certificate_dict(forged)


def test_tower_certificate_verification():
    d = tower_to_dict(tower(3, xi=[0, 1, 0, Fraction(1, 2)]))
    assert d["kind"] == "tower"
    assert verify_certificate_dict(d) == []

    forged = copy.deepcopy(d)
    forged["rows"][2]["size"] = 14
    assert any("size recursion" in f for f in verify_certificate_dict(forged))
    forged = copy.deepcopy(d)
    forged["rows"][1]["kappa"] = "99"
    assert any("kappa recursion" in f for f in verify_certificate_dict(forged))
    forged = copy.deepcopy(d)
    forged["rows"][0]["kappa"] = "1"
    assert any("base row" in f for f in verify_certificate_dict(forged))


def test_mitosis_certificate_round_trip_and_tamper():
    data = mitosis_of_finite_abelian(G2)
    d = mitosis_to_dict(data)
    assert verify_certificate_dict(d) == []
    assert verify_mitosis(mitosis_from_dict(d)) == []

    forged = copy.deepcopy(d)
    forged["d"] = forged["s"]
    failures = verify_certificate_dict(forged)
    assert any("split" in f for f in failures)


def test_mitosis_record_with_a_non_homomorphic_injection(tmp_path):
    # swapping the images of 0 and 1 keeps the injection injective and
    # its image set (so every axiom on images) but sends e to i(1)
    d = mitosis_to_dict(mitosis_of_finite_abelian(G3))
    inj = d["injection"]
    assert [src for src, _ in inj[:2]] == ["0", "1"]
    inj[0][1], inj[1][1] = inj[1][1], inj[0][1]
    assert verify_mitosis(mitosis_from_dict(d)) == [
        "injection is a homomorphism"]
    assert verify_certificate_dict(d) == [
        "axiom failed: injection is a homomorphism"]
    path = str(tmp_path / "mitosis.json")
    dump_json(d, path)
    assert run(["verify", path]) == 1


def test_certificate_dispatch_and_file_round_trip(tmp_path):
    z = boundary(Chain.single(G3, (1, 2)))
    cert = fill_min(z)
    d = fill_cert_to_dict(cert)
    assert d["kind"] == "fill"
    p = tmp_path / "cert.json"
    dump_json(d, p)
    assert verify_certificate_dict(load_json(p)) == []
    with pytest.raises(FileFormatError, match="kind"):
        verify_certificate_dict({"kind": "nonsense"})
    with pytest.raises(FileFormatError):
        verify_certificate_dict(["not", "a", "dict"])


def test_load_chain(tmp_path):
    c = Chain(G3, 2, {(1, 2): Fraction(1, 3), (2, 1): -2})
    p = tmp_path / "chain.json"
    dump_json(chain_to_dict(c), p)
    assert load_chain(p, G3) == c


def _pinned_pipeline_record():
    h = identity_hom(G2)
    cfg = PipelineConfig(h, h, h, mitosis_of_finite_abelian(G2))
    z = boundary(Chain(G2, 3, {(1, 1, 1): 1, (1, 0, 1): 2}))
    return pipeline_cert_to_dict(primitive_pipeline(z, cfg))


def test_pinned_records_keep_their_optima():
    # the values a tie between optimal fillings cannot move: kappa, the
    # xi ratio and the bound of the pipeline record, and kappa and every
    # vertex fill ratio of the kappa record.  The primitive may be
    # another one of no larger ratio, within the bound
    p = _pinned_pipeline_record()
    assert (p["kappa"], p["xi"], p["bound"]) == ("1", "5/2", "2381/2")
    assert parse_fraction(p["ratio"]) <= 8
    k = kappa_to_dict(ubc_kappa_exact(G3, 2), G3)
    assert (k["kappa"], k["lower"], k["upper"]) == ("1/2", "1/2", "1/2")
    assert [v["ratio"] for v in k["vertices"]] == [
        "1/2", "3/8", "1/4", "3/8", "1/4", "1/2", "3/8", "1/4", "1/2", "1/2",
        "1/4", "3/8", "1/2", "1/2", "1/2", "1/2", "1/2", "1/2", "1/2", "1/2",
        "1/2"]


def test_record_bytes_pinned():
    # sha256 of the JSON bytes of four records; they pin the order of
    # chain terms, kappa vertices and mitosis tables, which follows the
    # order of the group elements themselves, and which optimal filling
    # the solver returns on a tie
    a, b, c = ((0, 1),), ((1, 2),), ((1, 1), (0, 1))
    fp_chain = Chain(FreeProduct((G2, G3)), 2,
                     {(c, a): 3, (a, b): -1, ((), c): Fraction(1, 2),
                      (b, a): 2, (a, ()): 5})
    records = {
        "pipeline": _pinned_pipeline_record(),
        "kappa": kappa_to_dict(ubc_kappa_exact(G3, 2), G3),
        "mitosis": mitosis_to_dict(
            mitosis_of_finite_abelian(DirectProduct((G2, G2)))),
        "free product chain": chain_to_records(fp_chain),
    }
    digests = {k: hashlib.sha256(dump_json(v).encode()).hexdigest()
               for k, v in records.items()}
    assert digests == {
        "pipeline":
            "b39254224d064a6b7152315b2ccf2dd0d1f1de12f5383ece7f623714beddbd72",
        "kappa":
            "22bb98e0ea9fdc8d51000029eefa5884b22b136251b6512bc8e5b983d1fa6513",
        "mitosis":
            "565611ca95dc6220437103d8e8a49fb2fb5d8db4be84a6ec7d524724ec3434eb",
        "free product chain":
            "a95bc85341d18e705de6b6fcab0a01061923e910b5a91a636fcf0d83be96c65e",
    }


def _rejected(record, tmp_path):
    """verify_certificate_dict finds a failure and `barl1 verify` exits 1."""
    path = str(tmp_path / "forged.json")
    dump_json(record, path)
    return verify_certificate_dict(record) != [] and run(["verify", path]) == 1


@pytest.mark.parametrize("field", ["theta", "aw", "shuffle", "e_input"])
def test_tower_rejects_a_changed_row_field(field, tmp_path):
    d = tower_to_dict(tower(3, xi=[0, 1, 0, Fraction(1, 2)]))
    forged = copy.deepcopy(d)
    row = forged["rows"][2]
    row[field] = (format_fraction(parse_fraction(row[field]) + 1)
                  if field == "e_input" else row[field] + 1)
    assert verify_certificate_dict(forged) == [
        "%s recursion fails at degree 2" % field]
    assert _rejected(forged, tmp_path)


def _z2_degree_two_fill():
    d = fill_cert_to_dict(fill_min(boundary(Chain(G2, 3, {(1, 1, 1): 1,
                                                           (1, 0, 1): 2}))))
    assert d["support"] == {"kind": "full", "size": 8}
    assert verify_certificate_dict(d) == []
    return d


@pytest.mark.parametrize("support", [
    {"kind": "full", "size": 5},
    {"kind": "ball", "radius": 3, "size": 8}], ids=["full-5", "ball"])
def test_fill_rejects_a_support_the_group_does_not_give(support, tmp_path):
    forged = dict(_z2_degree_two_fill(), support=support)
    assert verify_certificate_dict(forged) == [
        "support is not the one fill_min gives z"]
    assert _rejected(forged, tmp_path)


def test_fill_rejects_an_unknown_method(tmp_path):
    forged = dict(_z2_degree_two_fill(), method="guess")
    assert verify_certificate_dict(forged) == ["unknown fill method 'guess'"]
    assert _rejected(forged, tmp_path)


def test_fill_over_a_free_group_states_its_word_ball():
    F = FreeGroup(1)
    d = fill_cert_to_dict(fill_min(boundary(Chain.single(F, ((1,), (1,))))))
    assert d["support"] == {"kind": "ball", "radius": 3, "size": 49}
    assert verify_certificate_dict(d) == []
    for support in ({"kind": "ball", "radius": 0, "size": 1},
                    {"kind": "ball", "radius": 4, "size": 49},
                    {"kind": "ball", "radius": 10 ** 9, "size": 49},
                    {"kind": "full", "size": 49}):
        assert verify_certificate_dict(dict(d, support=support)) == [
            "support is not the one fill_min gives z"]
    F2 = FreeGroup(2)
    c = Chain.single(F2, ((1,), (2,)))
    rec = fill_cert_to_dict(FillCertificate(
        boundary(c), c, Fraction(1, 3),
        {"kind": "ball", "radius": 3, "size": 2809}))
    assert verify_certificate_dict(rec) == []
    rec["support"] = {"kind": "ball", "radius": 10 ** 9, "size": 2809}
    assert verify_certificate_dict(rec) == [
        "support is not the one fill_min gives z"]


def test_fill_support_radius_is_one_fill_min_tries(tmp_path):
    # fill_min tries the radii 3, 6, 12; a ball of another radius that
    # holds c, stated with its own size, is not a support it gives
    F2 = FreeGroup(2)
    d = fill_cert_to_dict(fill_min(boundary(Chain.single(F2, ((1,), (2,))))))
    assert d["support"] == {"kind": "ball", "radius": 3, "size": 2809}
    assert verify_certificate_dict(d) == []
    for radius, ball in ((2, 17), (4, 161), (6, 1457)):
        forged = dict(d, support={"kind": "ball", "radius": radius,
                                  "size": ball ** 2})
        assert verify_certificate_dict(forged) == [
            "support is not the one fill_min gives z"]
        assert _rejected(forged, tmp_path)


def test_kappa_record_states_no_strategy(tmp_path):
    # the method alone says how kappa was found; a `strategy` field of
    # an older record, whatever its value, is ignored
    d = kappa_to_dict(ubc_kappa_exact(G2, 2), G2)
    assert "strategy" not in d
    assert verify_certificate_dict(d) == []
    for strategy in ("circuits", "cone", "trivial", None, 5):
        older = dict(d, strategy=strategy)
        assert verify_certificate_dict(older) == []
        path = str(tmp_path / "older.json")
        dump_json(older, path)
        assert run(["verify", path]) == 0


def _input_error(record, tmp_path):
    """`barl1 verify` refuses the record as an input error (exit 2)."""
    path = str(tmp_path / "bad-input.json")
    dump_json(record, path)
    return run(["verify", path]) == 2


@pytest.mark.parametrize("degree", [True, 1.9], ids=["bool", "float"])
def test_chain_degree_must_be_a_json_integer(degree, tmp_path, capsys):
    # int() would read either as degree 1
    d = {"degree": degree, "terms": [{"coeff": "1", "tuple": ["1"]}]}
    with pytest.raises(FileFormatError, match="degree must be an integer"):
        chain_from_dict(G2, d)
    with pytest.raises(FileFormatError, match="degree must be an integer"):
        cochain_from_dict(G2, d)
    group, chain = str(tmp_path / "g.json"), str(tmp_path / "c.json")
    dump_json(group_to_spec(G2), group)
    dump_json(d, chain)
    assert run(["boundary", "--group", group, "--chain", chain]) == 2
    assert "degree must be an integer" in capsys.readouterr().err


def _degree_one_record(kind):
    z = Chain(G2, 1, {(1,): Fraction(2), (0,): Fraction(-1)})
    if kind == "fill":
        return fill_cert_to_dict(fill_min(z))
    if kind == "kappa":
        return kappa_to_dict(ubc_kappa_exact(G2, 1), G2)
    h = identity_hom(G2)
    cfg = PipelineConfig(h, h, h, mitosis_of_finite_abelian(G2))
    return pipeline_cert_to_dict(primitive_pipeline(Chain.single(G2, (1,)), cfg))


@pytest.mark.parametrize("degree", [True, 1.0, "1"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("kind", ["fill", "kappa", "pipeline"])
def test_certificate_degree_must_be_a_json_integer(kind, degree, tmp_path,
                                                   capsys):
    d = _degree_one_record(kind)
    assert d["degree"] == 1 and verify_certificate_dict(d) == []
    forged = dict(d, degree=degree)
    with pytest.raises(FileFormatError, match="degree must be an integer"):
        verify_certificate_dict(forged)
    assert _input_error(forged, tmp_path)


@pytest.mark.parametrize("row, change", [
    (0, {"degree": False, "size": True}),
    (1, {"theta": 2.0}),
    (2, {"size": 13.0}),
], ids=["bool-base-row", "float-theta", "float-size"])
def test_tower_integer_fields_must_be_json_integers(row, change, tmp_path,
                                                    capsys):
    # false == 0, true == 1 and 2.0 == 2 would pass the row comparison
    d = tower_to_dict(tower(2))
    forged = copy.deepcopy(d)
    forged["rows"][row].update(change)
    assert forged["rows"][row] == d["rows"][row]
    with pytest.raises(FileFormatError, match="must be an integer"):
        verify_certificate_dict(forged)
    assert _input_error(forged, tmp_path)
