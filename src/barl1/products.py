"""Chain-level cross products, the front/back diagonal splitting, and
their cochain counterparts.

TensorChain holds elements of C_*(G) (x) C_*(H) as a sparse map from
(tuple over G, tuple over H) pairs to Fraction; mixed bidegrees of one
total degree are allowed.  The tensor differential carries the Koszul
sign on the second factor:

  d(a (x) b) = da (x) b + (-1)^{deg a} a (x) db

cross_chain is the shuffle product: first-factor entries advance on
the first shuffle block paired with the identity of the other group,
and the sign is the shuffle inversion parity.  aw splits a tuple over
G x H into front G-parts and back H-parts.  Both are chain maps and
aw o cross is the identity after killing tuples that contain the
identity (normalize).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import l1opt
from .barcomplex import (Chain, Cochain, boundary, kronecker, l1_norm,
                         push_chain, tuple_boundary)
from .groups import DirectProduct, diagonal_hom


class TensorChain:
    """Sparse element of C_*(G) (x) C_*(H) in one total degree."""

    __slots__ = ("groups", "degree", "coeffs")

    def __init__(self, groups, degree, coeffs=None):
        self.groups = (groups[0], groups[1])
        self.degree = degree
        clean = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for key, r in items:
                a, b = tuple(key[0]), tuple(key[1])
                if len(a) + len(b) != degree:
                    raise ValueError(
                        "key %r has total degree %d, expected %d"
                        % ((a, b), len(a) + len(b), degree))
                r = Fraction(r)
                if r == 0:
                    continue
                k = (a, b)
                s = clean.get(k, Fraction(0)) + r
                if s == 0:
                    clean.pop(k, None)
                else:
                    clean[k] = s
        self.coeffs = clean

    @classmethod
    def zero(cls, groups, degree):
        return cls(groups, degree)

    def is_zero(self):
        return not self.coeffs

    def terms(self):
        return sorted(self.coeffs.items(),
                      key=lambda it: (len(it[0][0]), it[0]))

    def bidegrees(self):
        return sorted({(len(a), len(b)) for a, b in self.coeffs})

    def component(self, p, q):
        out = TensorChain(self.groups, self.degree)
        out.coeffs = {k: v for k, v in self.coeffs.items()
                      if len(k[0]) == p and len(k[1]) == q}
        return out

    def _compatible(self, other):
        if not isinstance(other, TensorChain):
            raise TypeError("expected a TensorChain")
        if self.groups != other.groups or self.degree != other.degree:
            raise ValueError("tensor chains do not match in groups or degree")

    def __add__(self, other):
        self._compatible(other)
        out = dict(self.coeffs)
        for k, r in other.coeffs.items():
            s = out.get(k, Fraction(0)) + r
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        res = TensorChain(self.groups, self.degree)
        res.coeffs = out
        return res

    def __neg__(self):
        res = TensorChain(self.groups, self.degree)
        res.coeffs = {k: -v for k, v in self.coeffs.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def scale(self, r):
        r = Fraction(r)
        res = TensorChain(self.groups, self.degree)
        if r != 0:
            res.coeffs = {k: v * r for k, v in self.coeffs.items()}
        return res

    def __eq__(self, other):
        return (isinstance(other, TensorChain) and self.groups == other.groups
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __repr__(self):
        return "<tensor chain, degree %d, %d terms>" % (self.degree,
                                                        len(self.coeffs))


def tensor_norm(t: TensorChain) -> Fraction:
    return sum((abs(r) for r in t.coeffs.values()), Fraction(0))


def tensor_elementary(a: Chain, b: Chain) -> TensorChain:
    out = TensorChain((a.group, b.group), a.degree + b.degree)
    coeffs = {}
    for ta, ra in a.coeffs.items():
        for tb, rb in b.coeffs.items():
            coeffs[(ta, tb)] = coeffs.get((ta, tb), Fraction(0)) + ra * rb
    out.coeffs = {k: v for k, v in coeffs.items() if v != 0}
    return out


def tensor_boundary(t: TensorChain) -> TensorChain:
    """Koszul-signed differential of the tensor complex."""
    GA, GB = t.groups
    out = {}

    def acc(key, v):
        s = out.get(key, Fraction(0)) + v
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s

    for (a, b), r in t.coeffs.items():
        if a:
            for face, sign in tuple_boundary(GA, a):
                acc((face, b), sign * r)
        if b:
            sgn = -1 if len(a) % 2 else 1
            for face, sign in tuple_boundary(GB, b):
                acc((a, face), sgn * sign * r)
    res = TensorChain(t.groups, t.degree - 1)
    res.coeffs = out
    return res


def tensor_first_boundary(t: TensorChain) -> TensorChain:
    """(d (x) id), no sign."""
    GA, _ = t.groups
    out = {}
    for (a, b), r in t.coeffs.items():
        if not a:
            continue
        for face, sign in tuple_boundary(GA, a):
            key = (face, b)
            s = out.get(key, Fraction(0)) + sign * r
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    res = TensorChain(t.groups, t.degree - 1)
    res.coeffs = out
    return res


def tensor_second_boundary(t: TensorChain) -> TensorChain:
    """(id (x) d), no sign."""
    _, GB = t.groups
    out = {}
    for (a, b), r in t.coeffs.items():
        if not b:
            continue
        for face, sign in tuple_boundary(GB, b):
            key = (a, face)
            s = out.get(key, Fraction(0)) + sign * r
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    res = TensorChain(t.groups, t.degree - 1)
    res.coeffs = out
    return res


def push_tensor(ha, hb, t: TensorChain) -> TensorChain:
    if t.groups != (ha.source, hb.source):
        raise ValueError("tensor chain does not live over the hom sources")
    out = {}
    for (a, b), r in t.coeffs.items():
        key = (tuple(ha.fn(g) for g in a), tuple(hb.fn(g) for g in b))
        s = out.get(key, Fraction(0)) + r
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    res = TensorChain((ha.target, hb.target), t.degree)
    res.coeffs = out
    return res


def shuffles(p, q):
    """(positions of the first block, sign) for all (p, q)-shuffles."""
    for pos in itertools.combinations(range(p + q), p):
        inv = sum(s - i for i, s in enumerate(pos))
        yield pos, -1 if inv % 2 else 1


def _product_group(GA, GB, product=None):
    if product is None:
        product = DirectProduct((GA, GB))
    if not (isinstance(product, DirectProduct) and len(product.factors) == 2
            and product.factors[0] == GA and product.factors[1] == GB):
        raise ValueError("product oracle does not match the two factors")
    return product


def cross_chain(a: Chain, b: Chain, product=None) -> Chain:
    """Shuffle cross product C_p(G) x C_q(H) -> C_{p+q}(G x H)."""
    GA, GB = a.group, b.group
    P = _product_group(GA, GB, product)
    ea, eb = GA.identity(), GB.identity()
    p, q = a.degree, b.degree
    out = {}
    tabulated = list(shuffles(p, q))
    for ta, ra in a.coeffs.items():
        for tb, rb in b.coeffs.items():
            r = ra * rb
            for pos, sign in tabulated:
                posset = set(pos)
                tup = []
                ia = ib = 0
                for k in range(p + q):
                    if k in posset:
                        tup.append((ta[ia], eb))
                        ia += 1
                    else:
                        tup.append((ea, tb[ib]))
                        ib += 1
                key = tuple(tup)
                s = out.get(key, Fraction(0)) + sign * r
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
    res = Chain(P, p + q)
    res.coeffs = out
    return res


def cross_tensor(t: TensorChain, product=None) -> Chain:
    """Extend the shuffle product linearly over all bidegrees."""
    GA, GB = t.groups
    P = _product_group(GA, GB, product)
    res = Chain.zero(P, t.degree)
    for (a, b), r in t.coeffs.items():
        ca = Chain.single(GA, a, r)
        cb = Chain.single(GB, b, 1)
        res = res + cross_chain(ca, cb, product=P)
    return res


def aw(c: Chain) -> TensorChain:
    """Front/back splitting C_q(G x H) -> sum_j C_j(G) (x) C_{q-j}(H)."""
    P = c.group
    if not (isinstance(P, DirectProduct) and len(P.factors) == 2):
        raise ValueError("aw needs a chain over a two-factor direct product")
    GA, GB = P.factors
    q = c.degree
    out = {}
    for tup, r in c.coeffs.items():
        gs = tuple(x[0] for x in tup)
        hs = tuple(x[1] for x in tup)
        for j in range(q + 1):
            key = (gs[:j], hs[j:])
            s = out.get(key, Fraction(0)) + r
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    res = TensorChain((GA, GB), q)
    res.coeffs = out
    return res


def normalize(x):
    """Kill basis tuples that contain the identity entry."""
    if isinstance(x, Chain):
        G = x.group
        e = G.identity()
        kept = {t: r for t, r in x.coeffs.items() if e not in t}
        res = Chain(G, x.degree)
        res.coeffs = kept
        return res
    if isinstance(x, TensorChain):
        GA, GB = x.groups
        ea, eb = GA.identity(), GB.identity()
        kept = {}
        for (a, b), r in x.coeffs.items():
            if ea in a or eb in b:
                continue
            kept[(a, b)] = r
        res = TensorChain(x.groups, x.degree)
        res.coeffs = kept
        return res
    raise TypeError("normalize expects a Chain or a TensorChain")


@dataclass
class XiFillResult:
    """Per-instance homotopy between cross o aw and the identity on the
    diagonal image of one cycle: d(xi) = (cross(aw(Dz)) - Dz)."""

    certificate: l1opt.FillCertificate
    xi: Chain
    target: Chain
    ratio_vs_input: Fraction


def xi_fill(z: Chain, product=None, support=None, **fill_kw) -> XiFillResult:
    """Fill (cross o aw - id) of the diagonal push of a cycle z."""
    G = z.group
    P = _product_group(G, G, product)
    if z.degree >= 1 and not boundary(z).is_zero():
        raise ValueError("xi_fill expects a cycle")
    dz = push_chain(diagonal_hom(G, P), z)
    target = cross_tensor(aw(dz), product=P) - dz
    if z.is_zero():
        cert = l1opt.FillCertificate(target, Chain.zero(P, z.degree + 1),
                                     Fraction(0), {"kind": "empty"})
        return XiFillResult(cert, cert.c, target, Fraction(0))
    cert = l1opt.fill_min(target, support=support, **fill_kw)
    ratio = l1_norm(cert.c) / l1_norm(z)
    return XiFillResult(cert, cert.c, target, ratio)


def cross_cochain(f: Cochain, g: Cochain, product=None) -> Cochain:
    """(f x g)(pairs) = (-1)^{pq} f(front G-parts) g(back H-parts)."""
    GA, GB = f.group, g.group
    P = _product_group(GA, GB, product)
    p, q = f.degree, g.degree
    sign = -1 if (p * q) % 2 else 1

    def fn(tup, _f=f, _g=g, _p=p, _sign=sign):
        gs = tuple(x[0] for x in tup[:_p])
        hs = tuple(x[1] for x in tup[_p:])
        return _sign * _f.value(gs) * _g.value(hs)

    return Cochain(P, p + q, fn=fn, name="%s x %s" % (f.name, g.name))


def cup(f: Cochain, g: Cochain) -> Cochain:
    """Diagonal pullback of cross_cochain; same group, degrees add."""
    if f.group != g.group:
        raise ValueError("cup needs cochains over one group")
    p, q = f.degree, g.degree
    sign = -1 if (p * q) % 2 else 1

    def fn(tup, _f=f, _g=g, _p=p, _sign=sign):
        return _sign * _f.value(tup[:_p]) * _g.value(tup[_p:])

    return Cochain(f.group, p + q, fn=fn, name="%s cup %s" % (f.name, g.name))


@dataclass
class PairCompatReport:
    """Exact comparison of <f x g, c x d> with (-1)^{pq} <f, c> <g, d>."""

    lhs: Fraction
    rhs: Fraction
    sign: int
    bidegree: tuple
    ok: bool


def pair_compat_check(f: Cochain, g: Cochain, c: Chain, d: Chain,
                      product=None) -> PairCompatReport:
    if f.degree != c.degree or g.degree != d.degree:
        raise ValueError("pairing degrees do not match")
    P = _product_group(f.group, g.group, product)
    p, q = f.degree, g.degree
    sign = -1 if (p * q) % 2 else 1
    lhs = kronecker(cross_cochain(f, g, product=P), cross_chain(c, d, product=P))
    rhs = sign * kronecker(f, c) * kronecker(g, d)
    return PairCompatReport(lhs, rhs, sign, (p, q), lhs == rhs)
