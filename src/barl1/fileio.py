"""File formats: groups, chains, cochains, and certificates.

Everything is JSON with rationals rendered as decimal-free "p/q"
strings; parse_fraction reads back only such a string or a JSON
integer, never an exponent or a decimal point.  Element encoding is
per backend: finite elements by name, permutations as comma-separated
image strings, free-group words as "x1*x2^-1" (or "e"), product and
semidirect elements as nested arrays.
Certificates embed a full group record so they re-verify standalone.
dump_json writes a record with sorted keys, a two-space indent and
ASCII escapes: the bytes of json.dumps(obj, indent=2, sort_keys=True),
laid out by _write_json, since with an indent json.dumps runs its
pure-Python encoder, which took about a quarter of the time of
certifying and writing a Z/2 degree-2 pipeline primitive.
A fill, kappa or pipeline record is read into its class, whose
verify() holds its rules; only a tower's rule lives here.
decode_element is where elements read from a file enter the program,
so it checks their membership; chain and cochain records leave that
check to the Chain constructor, so each element is checked once.
encode_element trusts its argument.
Words and syllables are decoded literally, so an element has one
spelling: a word that is not reduced is rejected, not reduced.

Group records are read and written here too, by build_group and its
inverse group_to_spec, and `barl1 pipeline`'s config is read by
load_pipeline_config.  A record that is not one (not an object, a
missing field, an unknown `type` or product `op`) is a FileFormatError;
a well-formed description that is not a group is a GroupAxiomError.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import l1opt, mitosis
from .barcomplex import Chain, Cochain
from .groups import (DirectProduct, FiniteTableGroup, FreeGroup, FreeProduct,
                     GroupAxiomError, GroupOracle, Homomorphism,
                     PermutationGroup, SemidirectProduct, build_hom,
                     identity_hom)


class FileFormatError(ValueError):
    """A file or record does not match the expected schema."""


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_fraction(s) -> Fraction:
    """s, a JSON integer or a "p" or "p/q" string as format_fraction
    writes it; an exponent, as in "1e9", would make Fraction build 10**9."""
    if isinstance(s, bool):
        raise FileFormatError("expected a rational, got %r" % (s,))
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        m = _RATIONAL.fullmatch(s)
        if m is None:
            raise FileFormatError("bad rational %r: expected 'p' or 'p/q'"
                                  % (s,))
        try:
            return Fraction(int(m[1]), int(m[2] or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise FileFormatError("bad rational %r: %s" % (s, exc)) from None
    raise FileFormatError("expected a rational 'p/q' string, got %r" % (s,))


def parse_int(v, field) -> int:
    """v, the record's `field`, as an integer: a JSON integer only, so
    neither true/false, 1.7 nor "1"."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise FileFormatError("%s must be an integer, got %r" % (field, v))


def parse_list(v, field) -> list:
    """v, the record's `field`, which must be a JSON list."""
    if isinstance(v, list):
        return v
    raise FileFormatError("%s must be a list, got %r" % (field, v))


def required(record, name):
    """The field `name` of a record, which must be an object holding
    it; else FileFormatError naming the field."""
    if not isinstance(record, dict):
        raise FileFormatError("expected a record with field %r, got %r"
                              % (name, record))
    if name not in record:
        raise FileFormatError("record has no field %r" % (name,))
    return record[name]


def format_fraction(fr) -> str:
    if type(fr) is int:
        return str(fr)
    fr = Fraction(fr)
    if fr.denominator == 1:
        return str(fr.numerator)
    return "%d/%d" % (fr.numerator, fr.denominator)


_WORD_TOKEN = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")


def encode_element(G, a):
    if isinstance(G, FiniteTableGroup):
        return G.names[a]
    if isinstance(G, PermutationGroup):
        return ",".join(str(i) for i in a)
    if isinstance(G, FreeGroup):
        if not a:
            return "e"
        return "*".join("x%d" % v if v > 0 else "x%d^-1" % -v for v in a)
    if isinstance(G, DirectProduct):
        return [encode_element(f, x) for f, x in zip(G.factors, a)]
    if isinstance(G, FreeProduct):
        return [[k, encode_element(G.factors[k], x)] for k, x in a]
    if isinstance(G, SemidirectProduct):
        return [encode_element(G.base, a[0]), encode_element(G.action, a[1])]
    raise FileFormatError("no element encoding for %r" % (G,))


def decode_element(G, obj):
    a = _read_element(G, obj)
    G.check_member(a)
    return a


def _read_element(G, obj):
    """obj decoded as an element of G's canonical form, a malformed
    encoding raised as FileFormatError; membership is left to the
    caller."""
    try:
        return _decode_element(G, obj)
    except (FileFormatError, GroupAxiomError):
        raise
    except (TypeError, ValueError, KeyError, IndexError) as exc:
        raise FileFormatError("bad element %r: %s" % (obj, exc)) from None


def _decode_element(G, obj):
    if isinstance(G, FiniteTableGroup):
        try:
            return G.names.index(obj)
        except ValueError:
            raise FileFormatError("unknown element name %r" % (obj,)) from None
    if isinstance(G, PermutationGroup):
        return tuple(int(t) for t in str(obj).split(","))
    if isinstance(G, FreeGroup):
        s = str(obj).strip()
        if s in ("e", ""):
            return G.identity()
        w = []
        for token in s.split("*"):
            m = _WORD_TOKEN.match(token.strip())
            if not m:
                raise FileFormatError("bad word token %r" % token)
            i = int(m.group(1))
            exp = int(m.group(2)) if m.group(2) else 1
            if not 1 <= i <= G.rank:
                raise FileFormatError("letter x%d outside rank %d" % (i, G.rank))
            if exp == 0:
                raise FileFormatError("zero exponent in word token %r" % token)
            w += [i if exp > 0 else -i] * abs(exp)
        return tuple(w)
    if isinstance(G, DirectProduct):
        if len(obj) != len(G.factors):
            raise FileFormatError("product element arity mismatch")
        return tuple(_decode_element(f, x) for f, x in zip(G.factors, obj))
    if isinstance(G, FreeProduct):
        return tuple((int(k), _decode_element(G.factors[int(k)], enc))
                     for k, enc in obj)
    if isinstance(G, SemidirectProduct):
        return (_decode_element(G.base, obj[0]),
                _decode_element(G.action, obj[1]))
    raise FileFormatError("no element decoding for %r" % (G,))


def chain_to_records(c: Chain) -> list:
    """The terms of c as records, in the order of the tuples.  Each
    distinct element is encoded once per call; every record still gets
    lists of its own, so editing one record leaves the others alone."""
    G = c.group
    codes = {}

    def code(g):
        enc = codes.get(g)
        if enc is None:
            enc = codes[g] = encode_element(G, g)
        return _copy_lists(enc)

    return [{"coeff": format_fraction(r), "tuple": [code(g) for g in t]}
            for t, r in c.terms()]


def _copy_lists(enc):
    """An element encoding with every list in it copied."""
    return [_copy_lists(x) for x in enc] if isinstance(enc, list) else enc


def chain_from_records(G, degree, records) -> Chain:
    """The chain of the records, repeated tuples summed; the Chain
    constructor checks the membership of each decoded element."""
    coeffs = []
    for rec in records:
        tup = tuple(_read_element(G, x)
                    for x in parse_list(required(rec, "tuple"), "tuple"))
        if len(tup) != degree:
            raise FileFormatError("tuple %r has length %d, expected %d"
                                  % (rec["tuple"], len(tup), degree))
        coeffs.append((tup, parse_fraction(required(rec, "coeff"))))
    return Chain(G, degree, coeffs)


def chain_to_dict(c: Chain) -> dict:
    return {"degree": c.degree, "terms": chain_to_records(c)}


def chain_from_dict(G, d) -> Chain:
    degree = parse_int(required(d, "degree"), "degree")
    return chain_from_records(G, degree,
                              parse_list(d.get("terms", []), "terms"))


def cochain_from_dict(G, d) -> Cochain:
    """The cochain whose values are the chain_from_records of its terms,
    read with 0 off their support."""
    c = chain_from_dict(G, d)
    return Cochain(G, c.degree, fn=lambda tup: c.coeffs.get(tup, 0),
                   name=d.get("name", "f"))


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FileFormatError("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise FileFormatError("%s is not valid JSON: %s" % (path, exc)) from None


def dump_json(obj, path=None) -> str:
    """The text of obj as a record file, written to path when given:
    the bytes of json.dumps(obj, indent=2, sort_keys=True) and a final
    newline.  Every dict key must be a str (TypeError otherwise; no
    record or report holds another)."""
    out = []
    _write_json(obj, out, "\n")
    out.append("\n")
    text = "".join(out)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _write_json(obj, out, pad):
    """Append to out the pieces of obj's text as json.dumps(obj,
    indent=2, sort_keys=True) lays it out, with pad the newline and
    indent of the line obj starts on.  Strings go through json's C
    escaper, ints through int.__repr__, and bool, None and float
    through json.dumps; only the layout of lists and dicts is done here.
    json's indenting encoder is pure Python and builds closures that
    form reference cycles on every call; this writer builds none."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _write_json(v, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for k, v in sorted(obj.items()):
            if not isinstance(k, str):
                raise TypeError("keys must be str, not %s" % type(k).__name__)
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _write_json(v, out, inner)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(obj, int) and not isinstance(obj, bool):
        out.append(int.__repr__(obj))
    else:
        out.append(json.dumps(obj))


def build_group(spec) -> GroupOracle:
    """The group of a group record, each field read by required."""
    kind = required(spec, "type")
    if kind == "finite":
        return FiniteTableGroup(required(spec, "table"),
                                names=spec.get("elements"))
    if kind == "perm":
        return PermutationGroup(required(spec, "degree"),
                                spec.get("generators", []))
    if kind == "free":
        return FreeGroup(required(spec, "rank"))
    if kind == "product":
        op = required(spec, "op")
        factors = [build_group(f) for f in required(spec, "factors")]
        if op == "direct":
            return DirectProduct(factors)
        if op == "free":
            return FreeProduct(factors)
        raise FileFormatError("unknown product op %r" % (op,))
    if kind == "semidirect":
        base = build_group(required(spec, "base"))
        return SemidirectProduct(
            base, PermutationGroup(base.order(), spec.get("action", [])))
    raise FileFormatError("unknown group type %r" % (kind,))


def group_to_spec(G) -> dict:
    """The group record of G, which build_group reads back as G; it
    makes certificates self-contained."""
    if isinstance(G, FiniteTableGroup):
        return {"type": "finite", "elements": list(G.names),
                "table": [list(r) for r in G.table]}
    if isinstance(G, PermutationGroup):
        return {"type": "perm", "degree": G.degree,
                "generators": [list(g) for g in G.generators]}
    if isinstance(G, FreeGroup):
        return {"type": "free", "rank": G.rank}
    if isinstance(G, (DirectProduct, FreeProduct)):
        return {"type": "product",
                "op": "direct" if isinstance(G, DirectProduct) else "free",
                "factors": [group_to_spec(f) for f in G.factors]}
    if isinstance(G, SemidirectProduct):
        return {"type": "semidirect", "base": group_to_spec(G.base),
                "action": [list(g) for g in G.action.generators]}
    raise FileFormatError("no group record for %r" % (G,))


def read_group(spec, where):
    """build_group of the group record read from `where` (a file or a
    record field), a schema error raised as FileFormatError."""
    try:
        return build_group(spec)
    except GroupAxiomError:
        raise
    except (TypeError, ValueError, KeyError, IndexError) as exc:
        raise FileFormatError("bad group record in %s: %s" % (where, exc)) from None


def load_group(path):
    return read_group(load_json(path), path)


def load_chain(path, G) -> Chain:
    return chain_from_dict(G, load_json(path))


# certificate records


def fill_cert_to_dict(cert: l1opt.FillCertificate) -> dict:
    G = cert.z.group
    return {"kind": "fill",
            "group": group_to_spec(G),
            "degree": cert.z.degree,
            "z": chain_to_records(cert.z),
            "c": chain_to_records(cert.c),
            "ratio": format_fraction(cert.ratio),
            "support": cert.support,
            "method": cert.method}


def fill_cert_from_dict(d, G=None) -> l1opt.FillCertificate:
    """The fill record d, over G when given (the group its `group`
    field records), else over the group built from that field."""
    if G is None:
        G = read_group(required(d, "group"), "field 'group'")
    degree = parse_int(required(d, "degree"), "degree")
    z = chain_from_records(G, degree, parse_list(required(d, "z"), "z"))
    c = chain_from_records(G, degree + 1, parse_list(required(d, "c"), "c"))
    return l1opt.FillCertificate(z, c, parse_fraction(required(d, "ratio")),
                                 d.get("support"), d.get("method"))


def kappa_to_dict(res: l1opt.UbcConstant, G) -> dict:
    return {"kind": "kappa",
            "group": group_to_spec(G),
            "degree": res.degree,
            "kappa": None if res.kappa is None else format_fraction(res.kappa),
            "lower": format_fraction(res.lower),
            "upper": None if res.upper is None else format_fraction(res.upper),
            "method": res.method,
            "vertices": [fill_cert_to_dict(c) for c in res.certificates]}


def kappa_from_dict(d, G) -> l1opt.UbcConstant:
    """The kappa record d over G, the group of its `group` field, as are
    its vertices that record that group, so the group is built once.
    Each vertex must be a fill record, of kind "fill"."""
    degree = parse_int(required(d, "degree"), "degree")
    vertices = []
    for sub in parse_list(d.get("vertices", []), "vertices"):
        if required(sub, "kind") != "fill":
            raise FileFormatError("kappa vertex kind must be 'fill', got %r"
                                  % (sub["kind"],))
        vertices.append(fill_cert_from_dict(
            sub, G if required(sub, "group") == d.get("group") else None))
    lower = parse_fraction(required(d, "lower"))
    upper, kappa = (None if d.get(k) is None else parse_fraction(d[k])
                    for k in ("upper", "kappa"))
    return l1opt.UbcConstant(degree, kappa, lower, upper, d.get("method"),
                             vertices)


def pipeline_cert_to_dict(cert: mitosis.PipelineCertificate) -> dict:
    return {"kind": "pipeline",
            "source_group": group_to_spec(cert.z.group),
            "ambient_group": group_to_spec(cert.primitive.group),
            "degree": cert.degree,
            "z": chain_to_records(cert.z),
            "target": chain_to_records(cert.target),
            "primitive": chain_to_records(cert.primitive),
            "ratio": format_fraction(cert.ratio),
            "kappa": format_fraction(cert.kappa),
            "xi": format_fraction(cert.xi_ratio),
            "bound": format_fraction(cert.bound)}


def pipeline_cert_from_dict(d) -> mitosis.PipelineCertificate:
    H = read_group(required(d, "source_group"), "field 'source_group'")
    M = read_group(required(d, "ambient_group"), "field 'ambient_group'")
    q = parse_int(required(d, "degree"), "degree")
    return mitosis.PipelineCertificate(
        z=chain_from_records(H, q, parse_list(required(d, "z"), "z")),
        target=chain_from_records(
            M, q, parse_list(required(d, "target"), "target")),
        primitive=chain_from_records(
            M, q + 1, parse_list(required(d, "primitive"), "primitive")),
        degree=q,
        ratio=parse_fraction(required(d, "ratio")),
        kappa=parse_fraction(required(d, "kappa")),
        xi_ratio=parse_fraction(required(d, "xi")),
        bound=parse_fraction(required(d, "bound")))


def tower_to_dict(rows) -> dict:
    out = []
    for r in rows:
        rec = {"degree": r.degree, "size": r.size,
               "kappa": format_fraction(r.kappa)}
        if r.degree > 0:
            rec.update({"theta": r.theta_bound, "aw": r.aw_bound,
                        "shuffle": r.shuffle_bound,
                        "e_input": format_fraction(r.e_input),
                        "xi": format_fraction(r.xi)})
        out.append(rec)
    return {"kind": "tower", "rows": out}


def mitosis_to_dict(data: mitosis.MitosisData) -> dict:
    G, M = data.source, data.ambient
    if not G.is_finite():
        raise FileFormatError("only finite-source mitosis data serializes")
    return {"kind": "mitosis",
            "source": group_to_spec(G),
            "ambient": group_to_spec(M),
            "injection": [[encode_element(G, g), encode_element(M, data.inj(g))]
                          for g in G.elements()],
            "s": encode_element(M, data.s),
            "d": encode_element(M, data.d)}


def mitosis_from_dict(d) -> mitosis.MitosisData:
    G = read_group(required(d, "source"), "field 'source'")
    M = read_group(required(d, "ambient"), "field 'ambient'")
    table = read_table(d, "injection", G, M)
    inj = Homomorphism(G, M, table.__getitem__, name="inj")
    return mitosis.MitosisData(G, M, inj,
                               decode_element(M, required(d, "s")),
                               decode_element(M, required(d, "d")))


def load_pipeline_config(path):
    """(PipelineConfig, degree, samples, seed) of the pipeline config
    at path: its `group`, or its `groups` H, H', K and G, each a group
    record or a file path relative to the config; `homs`, "identity"
    (the default) or the tables phi, phi' and psi; the mitosis of G."""
    raw = load_json(path)
    if not isinstance(raw, dict):
        raise FileFormatError("pipeline config must be an object")
    base = os.path.dirname(os.path.abspath(path))

    def group_of(v):
        return (load_group(os.path.join(base, v)) if isinstance(v, str)
                else read_group(v, "pipeline config"))

    if "group" in raw:
        H = Hp = K = G = group_of(raw["group"])
    else:
        groups = required(raw, "groups")
        H, Hp, K, G = (group_of(required(groups, name))
                       for name in ("H", "H'", "K", "G"))

    homs = raw.get("homs", "identity")
    if homs == "identity":
        if not (H == Hp == K == G):
            raise FileFormatError("identity homs need one common group")
        phi, phi_prime, psi = (identity_hom(X) for X in (H, Hp, K))
    else:
        phi, phi_prime, psi = (
            build_hom(S, T, fn=read_table(homs, name, S, T).__getitem__,
                      name=name)
            for name, S, T in (("phi", H, Hp), ("phi'", Hp, K), ("psi", K, G)))

    cfg = mitosis.PipelineConfig(phi, phi_prime, psi,
                                 mitosis.mitosis_of_finite_abelian(G))

    def positive(name, default):
        v = parse_int(raw.get(name, default), "pipeline " + name)
        if v < 1:
            raise FileFormatError("pipeline %s must be at least 1, got %d"
                                  % (name, v))
        return v

    return (cfg, positive("degree", 2), positive("samples", 1),
            parse_int(raw.get("seed", 0), "pipeline seed"))


def read_table(record, name, S, T) -> dict:
    """The map S -> T that the field `name` of a record lists as
    [source, image] pairs, exactly one for each element of S."""
    pairs = required(record, name)
    if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 for p in pairs):
        raise FileFormatError("field %r must list [source, image] pairs"
                              % (name,))
    table = {decode_element(S, a): decode_element(T, b) for a, b in pairs}
    if len(table) != len(pairs):
        raise FileFormatError("field %r lists a source element twice"
                              % (name,))
    if len(table) != S.order():
        raise FileFormatError("field %r misses a source element" % (name,))
    return table


def verify_certificate_dict(d) -> list[str]:
    """Independent re-check of any certificate record.  Uses chain
    arithmetic, linear algebra and group oracles only; no LP is run.
    Returns the list of failed checks (empty means the certificate
    verifies)."""
    if not isinstance(d, dict) or "kind" not in d:
        raise FileFormatError("certificate must be an object with a 'kind'")
    kind = d["kind"]
    if kind == "fill":
        return fill_cert_from_dict(d).verify()
    if kind == "pipeline":
        return pipeline_cert_from_dict(d).verify()
    if kind == "kappa":
        G = read_group(required(d, "group"), "field 'group'")
        return kappa_from_dict(d, G).verify(G)
    if kind == "tower":
        # every row is recomputed from the stated xi values and compared
        # whole, so no field is trusted; an integer field must be one,
        # as true == 1 and 1.0 == 1 would compare equal
        rows = d.get("rows", [])
        if not isinstance(rows, list) or not all(
                isinstance(r, dict) for r in rows):
            raise FileFormatError("tower rows must be a list of objects")
        for r in rows:
            for k in ("degree", "size", "theta", "aw", "shuffle"):
                if k in r:
                    parse_int(r[k], "tower row " + k)
        if not rows or rows[0].get("degree") != 0:
            return ["tower must start at degree 0"]
        xis = [Fraction(0)] + [parse_fraction(r.get("xi", 0)) for r in rows[1:]]
        expect = tower_to_dict(mitosis.tower(len(rows) - 1, xi=xis))["rows"]
        if rows[0] != expect[0]:
            failures = ["base row must have kappa = 0 and size 1"]
        else:
            failures = []
        for r, ex in zip(rows[1:], expect[1:]):
            failures.extend("%s recursion fails at degree %d" % (k, ex["degree"])
                            for k in sorted(set(r) | set(ex))
                            if r.get(k) != ex.get(k))
        return failures
    if kind == "mitosis":
        return ["axiom failed: %s" % a
                for a in mitosis.verify_mitosis(mitosis_from_dict(d))]
    raise FileFormatError("unknown certificate kind %r" % (kind,))
