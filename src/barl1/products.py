"""Chain-level cross products, the front/back diagonal splitting, and
their cochain counterparts.

TensorChain holds elements of C_*(G) (x) C_*(H) as a sparse map from
(tuple over G, tuple over H) pairs to exact rationals; mixed
bidegrees of one total degree are allowed.  It shares its arithmetic with Chain
(barcomplex.SparseChain), and every producer here sums its terms with
barcomplex.sum_terms.  The tensor differential carries the Koszul sign
on the second factor:

  d(a (x) b) = da (x) b + (-1)^{deg a} a (x) db

cross_chain is the shuffle product: first-factor entries advance on
the first shuffle block paired with the identity of the other group,
and the sign is the shuffle inversion parity; cross_tensor extends it
linearly over all bidegrees in the same loop.  aw splits a tuple over
G x H into front G-parts and back H-parts.  Both are chain maps and
aw o cross is the identity after killing tuples that contain the
identity (normalize).  cup is the pullback of cross_cochain along the
diagonal, so it takes its sign (-1)^{pq} from there.

Products build their own G x H as DirectProduct((G, H)).  Oracles
compare by structure, so it equals any copy a caller built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import l1opt
from .barcomplex import (Chain, Cochain, SparseChain, basis_tuple, boundary,
                         kronecker, push_chain, sum_terms, tuple_boundary)
from .groups import DirectProduct, diagonal_hom


class TensorChain(SparseChain):
    """Sparse element of C_*(G) (x) C_*(H) in one total degree."""

    __slots__ = ()

    def __init__(self, groups, degree, coeffs=None):
        super().__init__((groups[0], groups[1]), degree, coeffs)

    @property
    def groups(self):
        return self.space

    def _key(self, key):
        a, b = tuple(key[0]), tuple(key[1])
        if len(a) + len(b) != self.degree:
            raise ValueError("key %r has total degree %d, expected %d"
                             % ((a, b), len(a) + len(b), self.degree))
        GA, GB = self.space
        return basis_tuple(GA, a, len(a)), basis_tuple(GB, b, len(b))

    def bidegrees(self):
        return sorted({(len(a), len(b)) for a, b in self.coeffs})

    def component(self, p, q):
        return self._like({k: v for k, v in self.coeffs.items()
                           if len(k[0]) == p and len(k[1]) == q})

    def __repr__(self):
        return "<tensor chain, degree %d, %d terms>" % (self.degree,
                                                        len(self.coeffs))


def tensor_elementary(a: Chain, b: Chain) -> TensorChain:
    return TensorChain._of((a.group, b.group), a.degree + b.degree, sum_terms(
        ((ta, tb), ra * rb) for ta, ra in a.coeffs.items()
        for tb, rb in b.coeffs.items()))


def _partial_boundary(t: TensorChain, first, second) -> TensorChain:
    """d (x) id when first, id (x) d when second; with both, the second
    carries the Koszul sign (-1)^{deg a}, which makes the total
    differential, and each alone carries none."""
    GA, GB = t.groups

    def faces():
        for (a, b), r in t.coeffs.items():
            if first and a:
                for face, sign in tuple_boundary(GA, a):
                    yield (face, b), sign * r
            if second and b:
                if first and len(a) % 2:
                    r = -r
                for face, sign in tuple_boundary(GB, b):
                    yield (a, face), sign * r

    return TensorChain._of(t.groups, t.degree - 1, sum_terms(faces()))


def tensor_boundary(t: TensorChain) -> TensorChain:
    """Koszul-signed differential of the tensor complex."""
    return _partial_boundary(t, True, True)


def tensor_first_boundary(t: TensorChain) -> TensorChain:
    """(d (x) id), no sign."""
    return _partial_boundary(t, True, False)


def tensor_second_boundary(t: TensorChain) -> TensorChain:
    """(id (x) d), no sign."""
    return _partial_boundary(t, False, True)


def push_tensor(ha, hb, t: TensorChain) -> TensorChain:
    if t.groups != (ha.source, hb.source):
        raise ValueError("tensor chain does not live over the hom sources")
    return TensorChain._of((ha.target, hb.target), t.degree, sum_terms(
        ((tuple(ha.fn(g) for g in a), tuple(hb.fn(g) for g in b)), r)
        for (a, b), r in t.coeffs.items()))


def shuffles(p, q):
    """(positions of the first block, sign) for all (p, q)-shuffles."""
    for pos in itertools.combinations(range(p + q), p):
        inv = sum(s - i for i, s in enumerate(pos))
        yield pos, -1 if inv % 2 else 1


def cross_chain(a: Chain, b: Chain) -> Chain:
    """Shuffle cross product C_p(G) x C_q(H) -> C_{p+q}(G x H)."""
    return cross_tensor(tensor_elementary(a, b))


def cross_tensor(t: TensorChain) -> Chain:
    """Extend the shuffle product linearly over all bidegrees: the sum
    of the shuffle products of the terms of t, over G x H."""
    GA, GB = t.groups
    ea, eb = GA.identity(), GB.identity()
    blocks = {}  # (p, q) -> [(first-block mask, sign)] per shuffle

    def terms():
        for (ta, tb), r in t.coeffs.items():
            pq = (len(ta), len(tb))
            if pq not in blocks:
                blocks[pq] = [([k in pos for k in range(sum(pq))], sign)
                              for pos, sign in shuffles(*pq)]
            for mask, sign in blocks[pq]:
                ia, ib = iter(ta), iter(tb)
                yield (tuple((next(ia), eb) if m else (ea, next(ib))
                             for m in mask), sign * r)

    return Chain._of(DirectProduct(t.groups), t.degree, sum_terms(terms()))


def aw(c: Chain) -> TensorChain:
    """Front/back splitting C_q(G x H) -> sum_j C_j(G) (x) C_{q-j}(H)."""
    P = c.group
    if not (isinstance(P, DirectProduct) and len(P.factors) == 2):
        raise ValueError("aw needs a chain over a two-factor direct product")
    q = c.degree

    def splits():
        for tup, r in c.coeffs.items():
            gs = tuple(x[0] for x in tup)
            hs = tuple(x[1] for x in tup)
            for j in range(q + 1):
                yield (gs[:j], hs[j:]), r

    return TensorChain._of(P.factors, q, sum_terms(splits()))


def normalize(x):
    """Kill basis tuples that contain the identity entry."""
    if isinstance(x, Chain):
        e = x.group.identity()
        return x._like({t: r for t, r in x.coeffs.items() if e not in t})
    if isinstance(x, TensorChain):
        ea, eb = (G.identity() for G in x.groups)
        return x._like({(a, b): r for (a, b), r in x.coeffs.items()
                        if ea not in a and eb not in b})
    raise TypeError("normalize expects a Chain or a TensorChain")


def xi_fill(z: Chain) -> l1opt.FillCertificate:
    """xi, the per-instance homotopy between cross o aw and the identity
    on the diagonal image D of a cycle z: fill_min's certificate of the
    target cross(aw(D)) - D, whose c is xi."""
    if z.degree >= 1 and not boundary(z).is_zero():
        raise ValueError("xi_fill expects a cycle")
    dz = push_chain(diagonal_hom(z.group), z)
    return l1opt.fill_min(cross_tensor(aw(dz)) - dz)


def cross_cochain(f: Cochain, g: Cochain) -> Cochain:
    """(f x g)(pairs) = (-1)^{pq} f(front G-parts) g(back H-parts)."""
    p, q = f.degree, g.degree
    sign = -1 if (p * q) % 2 else 1

    def fn(tup, _f=f, _g=g, _p=p, _sign=sign):
        gs = tuple(x[0] for x in tup[:_p])
        hs = tuple(x[1] for x in tup[_p:])
        return _sign * _f.value(gs) * _g.value(hs)

    return Cochain(DirectProduct((f.group, g.group)), p + q, fn=fn,
                   name="%s x %s" % (f.name, g.name))


def cup(f: Cochain, g: Cochain) -> Cochain:
    """The pullback of cross_cochain(f, g) along the diagonal
    t -> tuple(zip(t, t)); same group, degrees add."""
    if f.group != g.group:
        raise ValueError("cup needs cochains over one group")
    fg = cross_cochain(f, g)
    return Cochain(f.group, fg.degree, name="%s cup %s" % (f.name, g.name),
                   fn=lambda tup: fg.value(tuple(zip(tup, tup))))


@dataclass
class PairCompatReport:
    """Exact comparison of <f x g, c x d> with (-1)^{pq} <f, c> <g, d>."""

    lhs: Fraction
    rhs: Fraction
    sign: int
    ok: bool


def pair_compat_check(f: Cochain, g: Cochain, c: Chain,
                      d: Chain) -> PairCompatReport:
    if f.degree != c.degree or g.degree != d.degree:
        raise ValueError("pairing degrees do not match")
    p, q = f.degree, g.degree
    sign = -1 if (p * q) % 2 else 1
    lhs = kronecker(cross_cochain(f, g), cross_chain(c, d))
    rhs = sign * kronecker(f, c) * kronecker(g, d)
    return PairCompatReport(lhs, rhs, sign, lhs == rhs)
