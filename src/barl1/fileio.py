"""File formats: groups, chains, cochains, and certificates.

Everything is JSON with rationals rendered as decimal-free "p/q"
strings.  Element encoding is per backend: finite elements by name,
permutations as comma-separated image strings, free-group words as
"x1*x2^-1" (or "e"), product and semidirect elements as nested arrays.
Certificates embed a full group record so they re-verify standalone.
decode_element is where elements read from a file enter the program,
so it checks their membership; chain and cochain records leave that
check to the Chain constructor, so each element is checked once.
encode_element trusts its argument.
Words and syllables are decoded literally, so an element has one
spelling: a word that is not reduced is rejected, not reduced.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from . import l1opt, mitosis
from .barcomplex import Chain, Cochain
from .groups import (DirectProduct, FiniteTableGroup, FreeGroup, FreeProduct,
                     GroupAxiomError, Homomorphism, PermutationGroup,
                     SemidirectProduct, build_group, group_to_spec)


class FileFormatError(ValueError):
    """A file or record does not match the expected schema."""


def parse_fraction(s) -> Fraction:
    if isinstance(s, bool):
        raise FileFormatError("expected a rational, got %r" % (s,))
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise FileFormatError("bad rational %r: %s" % (s, exc)) from None
    raise FileFormatError("expected a rational 'p/q' string, got %r" % (s,))


def parse_int(v, field) -> int:
    """v, the record's `field`, as an integer: a JSON integer only, so
    neither true/false, 1.7 nor "1"."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise FileFormatError("%s must be an integer, got %r" % (field, v))


def format_fraction(fr) -> str:
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
    return [{"coeff": format_fraction(r),
             "tuple": [encode_element(c.group, g) for g in t]}
            for t, r in c.terms()]


def chain_from_records(G, degree, records) -> Chain:
    """The chain of the records, repeated tuples summed; the Chain
    constructor checks the membership of each decoded element."""
    coeffs = []
    for rec in records:
        if not isinstance(rec, dict) or "coeff" not in rec or "tuple" not in rec:
            raise FileFormatError(
                "chain record must be {'coeff': 'p/q', 'tuple': [...]}")
        tup = tuple(_read_element(G, x) for x in rec["tuple"])
        if len(tup) != degree:
            raise FileFormatError(
                "tuple %r has length %d, expected %d"
                % (rec["tuple"], len(tup), degree))
        coeffs.append((tup, parse_fraction(rec["coeff"])))
    return Chain(G, degree, coeffs)


def chain_to_dict(c: Chain) -> dict:
    return {"degree": c.degree, "terms": chain_to_records(c)}


def chain_from_dict(G, d) -> Chain:
    if not isinstance(d, dict) or "degree" not in d:
        raise FileFormatError("chain file needs a 'degree' field")
    degree = parse_int(d["degree"], "degree")
    return chain_from_records(G, degree, d.get("terms", []))


def cochain_from_dict(G, d) -> Cochain:
    """The cochain whose values are the chain_from_records of its terms,
    read with 0 off their support."""
    if not isinstance(d, dict) or "degree" not in d:
        raise FileFormatError("cochain file needs a 'degree' field")
    c = chain_from_records(G, parse_int(d["degree"], "degree"),
                           d.get("terms", []))
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
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _read_group(spec, where):
    """build_group of the group record read from `where` (a file or a
    record field), a schema error raised as FileFormatError."""
    try:
        return build_group(spec)
    except GroupAxiomError:
        raise
    except (TypeError, ValueError, KeyError, IndexError) as exc:
        raise FileFormatError("bad group record in %s: %s" % (where, exc)) from None


def load_group(path):
    return _read_group(load_json(path), path)


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
        G = _read_group(d["group"], "field 'group'")
    degree = parse_int(d["degree"], "degree")
    z = chain_from_records(G, degree, d["z"])
    c = chain_from_records(G, degree + 1, d["c"])
    return l1opt.FillCertificate(z, c, parse_fraction(d["ratio"]),
                                 d.get("support"), d.get("method"))


def kappa_to_dict(res: l1opt.UbcConstant, G) -> dict:
    return {"kind": "kappa",
            "group": group_to_spec(G),
            "degree": res.degree,
            "kappa": None if res.kappa is None else format_fraction(res.kappa),
            "lower": format_fraction(res.lower),
            "upper": None if res.upper is None else format_fraction(res.upper),
            "method": res.method,
            "strategy": res.strategy,
            "vertices": [fill_cert_to_dict(c) for c in res.certificates]}


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
    H = _read_group(d["source_group"], "field 'source_group'")
    M = _read_group(d["ambient_group"], "field 'ambient_group'")
    q = parse_int(d["degree"], "degree")
    return mitosis.PipelineCertificate(
        z=chain_from_records(H, q, d["z"]),
        target=chain_from_records(M, q, d["target"]),
        primitive=chain_from_records(M, q + 1, d["primitive"]),
        degree=q,
        ratio=parse_fraction(d["ratio"]),
        kappa=parse_fraction(d["kappa"]),
        xi_ratio=parse_fraction(d["xi"]),
        bound=parse_fraction(d["bound"]))


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
    G = _read_group(d["source"], "field 'source'")
    M = _read_group(d["ambient"], "field 'ambient'")
    table = {decode_element(G, src): decode_element(M, img)
             for src, img in d["injection"]}
    if len(table) != G.order():
        raise FileFormatError("injection table does not cover the source group")
    inj = Homomorphism(G, M, table.__getitem__, name="inj")
    return mitosis.MitosisData(G, M, inj,
                               decode_element(M, d["s"]),
                               decode_element(M, d["d"]))


def _vertex_set_failures(expected, G, q, zs) -> list[str]:
    """A vertex-enumeration kappa record must fill every vertex of the
    unit boundary polytope, and nothing else: its vertex boundaries zs
    must be the circuits of im d, each once, as l1opt.circuits lists
    them again by linear algebra alone (expected; None past its budget)."""
    if expected is None:
        return ["too many circuits to re-enumerate; completeness unchecked"]
    want = {frozenset(c.coeffs.items()) for c in expected}
    got = [frozenset(z.coeffs.items()) for z in zs
           if z.group == G and z.degree == q]
    failures = []
    if len(zs) > len(got):
        failures.append("%d vertices over another group or degree"
                        % (len(zs) - len(got)))
    missing = len(want.difference(got))
    extra = len(got) - len(want.intersection(got))
    if missing:
        failures.append("%d circuits of im d missing from the vertices" % missing)
    if extra:
        failures.append("%d vertices are not distinct circuits of im d" % extra)
    return failures


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
        # lower is the best vertex ratio and upper the bound the method
        # proves: kappa for vertex-enumeration, else the cone bound 1 of a
        # finite group in degree >= 1, above which no fill is minimal
        failures = []
        G = _read_group(d["group"], "field 'group'")
        q = parse_int(d["degree"], "degree")
        cone = q >= 1 and G.is_finite()
        # a vertex that records the record's group is read over G, so
        # the group is built once; any other is read over its own
        vertices = [fill_cert_from_dict(
                        sub, G if sub["group"] == d["group"] else None)
                    for sub in d.get("vertices", [])]
        for i, cert in enumerate(vertices):
            failures.extend("vertex %d: %s" % (i, f) for f in cert.verify())
            if cone and cert.ratio > 1:
                failures.append("vertex %d: ratio above the cone bound 1" % i)
        lower = parse_fraction(d["lower"])
        upper = None if d.get("upper") is None else parse_fraction(d["upper"])
        kappa = None if d.get("kappa") is None else parse_fraction(d["kappa"])
        method = d.get("method")
        if max((c.ratio for c in vertices), default=Fraction(0)) != lower:
            failures.append("stated lower bound is not the best stored ratio")
        proved = None
        if method == "vertex-enumeration":
            proved = kappa
        elif method in ("sampled", "cone-bound") and cone:
            proved = Fraction(1)
        if upper != proved:
            failures.append("stated upper bound is not the one its method proves")
        if kappa is not None:
            if method not in ("vertex-enumeration", "cone-bound"):
                failures.append("exact kappa stated for a non-exact method")
            elif kappa != lower or kappa != upper:
                failures.append("exact kappa does not match its witness ratio")
        strategy = {"sampled": "cone", "cone-bound": "cone"}.get(method)
        if method == "vertex-enumeration":
            expected = l1opt.circuits(G, q)
            strategy = "trivial" if expected == [] else "circuits"
            failures.extend(_vertex_set_failures(expected, G, q,
                                                 [c.z for c in vertices]))
        if d.get("strategy") != strategy:
            failures.append("strategy is not the one its method implies")
        return failures
    if kind == "tower":
        # every row is recomputed from the stated xi values and compared
        # whole, so no field is trusted; an integer field must be one,
        # as true == 1 and 1.0 == 1 would compare equal
        rows = d.get("rows", [])
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
        report = mitosis.verify_mitosis(mitosis_from_dict(d))
        return ["axiom failed: %s" % a for a in report.failed_axioms()]
    raise FileFormatError("unknown certificate kind %r" % (kind,))
