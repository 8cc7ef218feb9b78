"""Bar chain complex of a group with exact rational coefficients.

Degree k chains are finitely supported Fraction combinations of
k-tuples of group elements; the empty tuple spans degree 0.  The
boundary is

  d(g_1,...,g_k) = (g_2,...,g_k)
                   + sum_{j=1}^{k-1} (-1)^j (g_1,...,g_j g_{j+1},...,g_k)
                   + (-1)^k (g_1,...,g_{k-1})

so d_1 = 0 identically and |d_k| <= k+1 in the l1 operator norm.
No floats anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .groups import GroupOracle

DEFAULT_SIZE_CAP = 100_000


class SizeCapError(ValueError):
    """An enumeration would exceed the configured size cap."""


class MaterializeError(ValueError):
    """A cochain table cannot be materialized (infinite domain)."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("float coefficient %r rejected; use Fraction" % x)
    return Fraction(x)


class Chain:
    """Finitely supported map from k-tuples to Fraction."""

    __slots__ = ("group", "degree", "coeffs")

    def __init__(self, group: GroupOracle, degree: int, coeffs=None):
        if degree < 0:
            raise ValueError("chain degree must be >= 0")
        self.group = group
        self.degree = degree
        clean = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for tup, r in items:
                tup = tuple(tup)
                if len(tup) != degree:
                    raise ValueError(
                        "tuple %r has length %d, chain degree is %d"
                        % (tup, len(tup), degree))
                r = _as_fraction(r)
                if r == 0:
                    continue
                r0 = clean.get(tup)
                if r0 is None:
                    clean[tup] = r
                else:
                    s = r0 + r
                    if s == 0:
                        del clean[tup]
                    else:
                        clean[tup] = s
        self.coeffs = clean

    @classmethod
    def zero(cls, group, degree):
        return cls(group, degree)

    @classmethod
    def single(cls, group, tup, coeff=1):
        return cls(group, len(tup), {tuple(tup): coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        """(tuple, coefficient) pairs in the order of the tuples."""
        return sorted(self.coeffs.items())

    def support(self):
        return list(self.coeffs)

    def _compatible(self, other):
        if not isinstance(other, Chain):
            raise TypeError("expected a Chain, got %r" % (other,))
        if self.group != other.group or self.degree != other.degree:
            raise ValueError("chains live over different groups or degrees")

    def __add__(self, other):
        self._compatible(other)
        out = dict(self.coeffs)
        for tup, r in other.coeffs.items():
            s = out.get(tup, Fraction(0)) + r
            if s == 0:
                out.pop(tup, None)
            else:
                out[tup] = s
        c = Chain(self.group, self.degree)
        c.coeffs = out
        return c

    def __neg__(self):
        c = Chain(self.group, self.degree)
        c.coeffs = {t: -r for t, r in self.coeffs.items()}
        return c

    def __sub__(self, other):
        return self + (-other)

    def scale(self, r):
        r = _as_fraction(r)
        c = Chain(self.group, self.degree)
        if r != 0:
            c.coeffs = {t: v * r for t, v in self.coeffs.items()}
        return c

    def __rmul__(self, r):
        return self.scale(r)

    def __eq__(self, other):
        return (isinstance(other, Chain) and self.group == other.group
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __repr__(self):
        if self.is_zero():
            return "<zero chain, degree %d>" % self.degree
        parts = ["%s*%r" % (r, t) for t, r in self.terms()[:4]]
        if len(self.coeffs) > 4:
            parts.append("...")
        return "<chain %s>" % " + ".join(parts)


def l1_norm(c: Chain) -> Fraction:
    return sum((abs(r) for r in c.coeffs.values()), Fraction(0))


def tuple_boundary(G: GroupOracle, tup):
    """Boundary terms of a basis tuple as (tuple, sign) pairs."""
    k = len(tup)
    if k == 0:
        raise ValueError("degree-0 tuples have no boundary")
    yield tup[1:], 1
    for j in range(1, k):
        merged = tup[:j - 1] + (G.mul(tup[j - 1], tup[j]),) + tup[j + 1:]
        yield merged, -1 if j % 2 else 1
    yield tup[:-1], -1 if k % 2 else 1


def boundary(c: Chain) -> Chain:
    if c.degree == 0:
        raise ValueError("boundary of a degree-0 chain is undefined")
    G = c.group
    out = {}
    for tup, r in c.coeffs.items():
        for face, sign in tuple_boundary(G, tup):
            s = out.get(face, Fraction(0)) + sign * r
            if s == 0:
                out.pop(face, None)
            else:
                out[face] = s
    res = Chain(G, c.degree - 1)
    res.coeffs = out
    return res


def is_cycle(c: Chain) -> bool:
    if c.degree == 0:
        return True
    return boundary(c).is_zero()


class Cochain:
    """Rational cochain: a finitely supported table or a lazy rule.

    Table cochains treat missing tuples as 0, which over a finite group
    is the full table.  Lazy cochains only promise pointwise
    evaluation, which is all the Kronecker pairing needs.
    """

    __slots__ = ("group", "degree", "table", "fn", "name")

    def __init__(self, group, degree, table=None, fn=None, name="cochain"):
        if degree < 0:
            raise ValueError("cochain degree must be >= 0")
        if (table is None) == (fn is None):
            raise ValueError("give exactly one of table, fn")
        self.group = group
        self.degree = degree
        self.fn = fn
        self.name = name
        if table is not None:
            clean = {}
            for tup, r in (table.items() if isinstance(table, dict) else table):
                tup = tuple(tup)
                if len(tup) != degree:
                    raise ValueError("tuple %r has wrong length for degree %d"
                                     % (tup, degree))
                r = _as_fraction(r)
                if r != 0:
                    clean[tup] = r
            self.table = clean
        else:
            self.table = None

    def is_table(self) -> bool:
        return self.table is not None

    def value(self, tup) -> Fraction:
        tup = tuple(tup)
        if len(tup) != self.degree:
            raise ValueError("tuple %r has wrong length for degree %d"
                             % (tup, self.degree))
        if self.table is not None:
            return self.table.get(tup, Fraction(0))
        return _as_fraction(self.fn(tup))

    __call__ = value

    def materialize(self, cap=DEFAULT_SIZE_CAP) -> "Cochain":
        if self.table is not None:
            return self
        n = self.group.order()
        if n is None:
            raise MaterializeError(
                "cannot materialize a lazy cochain over an infinite group")
        if n ** self.degree > cap:
            raise SizeCapError("table size %d exceeds cap %d"
                               % (n ** self.degree, cap))
        table = {}
        for tup in itertools.product(self.group.elements(), repeat=self.degree):
            v = _as_fraction(self.fn(tup))
            if v != 0:
                table[tup] = v
        return Cochain(self.group, self.degree, table=table, name=self.name)

    def sup_norm(self, support=None, cap=DEFAULT_SIZE_CAP) -> Fraction:
        """Max |f| over the given tuples, or over the whole (finite)
        domain when support is None."""
        if support is not None:
            return max((abs(self.value(t)) for t in support),
                       default=Fraction(0))
        f = self.materialize(cap=cap)
        return max((abs(v) for v in f.table.values()), default=Fraction(0))


def coboundary(f: Cochain, cap=DEFAULT_SIZE_CAP) -> Cochain:
    """Adjoint of the boundary: (df)(t) = f(boundary of t)."""
    G = f.group
    k = f.degree

    def fn(tup, _f=f, _G=G):
        total = Fraction(0)
        for face, sign in tuple_boundary(_G, tup):
            total += sign * _f.value(face)
        return total

    out = Cochain(G, k + 1, fn=fn, name="d(%s)" % f.name)
    n = G.order()
    if n is not None and n ** (k + 1) <= cap:
        return out.materialize(cap=cap)
    return out


def kronecker(f: Cochain, c: Chain) -> Fraction:
    if f.group != c.group or f.degree != c.degree:
        raise ValueError("cochain and chain do not match in group or degree")
    total = Fraction(0)
    for tup, r in c.coeffs.items():
        total += r * f.value(tup)
    return total


def push_chain(h, c: Chain) -> Chain:
    """Apply a homomorphism entrywise; colliding tuples combine."""
    if c.group != h.source:
        raise ValueError("chain does not live over the source of %r" % (h,))
    out = {}
    for tup, r in c.coeffs.items():
        img = tuple(h.fn(g) for g in tup)
        s = out.get(img, Fraction(0)) + r
        if s == 0:
            out.pop(img, None)
        else:
            out[img] = s
    res = Chain(h.target, c.degree)
    res.coeffs = out
    return res


@dataclass
class BoundaryMatrix:
    """Sparse integer matrix of d_k over the lexicographic tuple bases."""

    group: GroupOracle
    degree: int
    nrows: int
    ncols: int
    entries: dict  # (row, col) -> int

    def dense_rows(self):
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def rank(self) -> int:
        if not self.entries:
            return 0
        return linalg.rank_int(self.dense_rows(), self.ncols)


def tuple_index(G, tup) -> int:
    n = G.order()
    idx = 0
    for g in tup:
        idx = idx * n + G.element_index(g)
    return idx


def index_tuple(G, idx, k):
    n = G.order()
    els = G.elements()
    out = []
    for _ in range(k):
        out.append(els[idx % n])
        idx //= n
    return tuple(reversed(out))


def boundary_matrix(G, k, cap=DEFAULT_SIZE_CAP) -> BoundaryMatrix:
    if not G.is_finite():
        raise SizeCapError("boundary matrices need a finite group")
    if k < 1:
        raise ValueError("boundary matrix defined for degree >= 1")
    n = G.order()
    if n ** k > cap:
        raise SizeCapError("basis size %d exceeds cap %d" % (n ** k, cap))
    ncols = n ** k
    nrows = n ** (k - 1)
    entries = {}
    for j in range(ncols):
        tup = index_tuple(G, j, k)
        for face, sign in tuple_boundary(G, tup):
            key = (tuple_index(G, face), j)
            v = entries.get(key, 0) + sign
            if v == 0:
                entries.pop(key, None)
            else:
                entries[key] = v
    return BoundaryMatrix(G, k, nrows, ncols, entries)


def betti(G, k, cap=DEFAULT_SIZE_CAP) -> int:
    """dim H_k(G; Q) for finite G, by exact ranks of d_k and d_{k+1}."""
    if not G.is_finite():
        raise SizeCapError("betti numbers computed for finite groups only")
    if k < 0:
        raise ValueError("degree must be >= 0")
    n = G.order()
    if n ** (k + 1) > cap:
        raise SizeCapError(
            "dimension %d of degree %d exceeds cap %d" % (n ** (k + 1), k + 1, cap))
    dim_k = n ** k
    rank_k = boundary_matrix(G, k, cap=cap).rank() if k >= 1 else 0
    rank_k1 = boundary_matrix(G, k + 1, cap=cap).rank()
    return (dim_k - rank_k) - rank_k1


def chain_from_vector(G, k, vec) -> Chain:
    coeffs = {}
    for i, v in enumerate(vec):
        if v:
            coeffs[index_tuple(G, i, k)] = v
    c = Chain(G, k)
    c.coeffs = {t: Fraction(v) for t, v in coeffs.items()}
    return c


def chain_to_vector(c: Chain, size=None):
    G = c.group
    if size is None:
        size = G.order() ** c.degree
    vec = [Fraction(0)] * size
    for tup, r in c.coeffs.items():
        vec[tuple_index(G, tup)] = r
    return vec
